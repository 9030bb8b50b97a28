//! The life-logging application of §3 (Figure 4) plus the cloud analytics
//! of §2.3.2: visit diary, semantic tagging, and the three example
//! prediction queries.
//!
//! ```sh
//! cargo run --release --example lifelog_diary
//! ```

use pmware::algorithms::signature::DiscoveredPlaceId;
use pmware::cloud::{ArrivalBody, NextVisitBody, Payload, PlaceOnlyBody, Response};
use pmware::core::registry::PmPlaceId;
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
            pms.label_place(PmPlaceId(place), label);
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
    // "Home" is where the user spends the most time (nights included);
    // find its stable id from PMS's registry by total stay. Counting
    // evening arrivals instead would favour a place with many short
    // evening visits.
    let home = pms
        .places()
        .iter()
        .max_by_key(|p| {
            p.gca_visits
                .iter()
                .map(|v| v.duration().as_seconds())
                .sum::<u64>()
        })
        .expect("places discovered")
        .id;

    println!("\n— cloud analytics (§2.3.2) —");
    let client = pms.cloud_client_mut();

    // Query 1: likely time the user reaches home in the evening.
    match client.call(
        "/api/v1/analytics/arrival",
        ArrivalBody {
            place: DiscoveredPlaceId(home.0),
            window: Some((15, 24)),
        },
        end,
    ) {
        Ok(Response {
            body: Payload::ArrivalAt { second_of_day: s },
            ..
        }) => println!(
            "1. typical evening home arrival: {:02}:{:02}",
            s / 3600,
            (s % 3600) / 60
        ),
        Ok(resp) => return Err(format!("unexpected arrival reply: {}", resp.json()).into()),
        Err(e) => println!("1. no evening arrival at home yet ({e})"),
    }

    // Queries 2 and 3 read the cloud's profile history, which holds a
    // place's visits only from day profiles that have shipped — a day's
    // profile ships at the first nightly pass after it, or later while a
    // stay that began that day is still open; the last days ship only
    // when the service finishes — and never holds the visits GCA found before the place was
    // discovered (the phone announces those in PLACE_NEW, so the diary
    // above counts them). So the place queried is the other place with
    // the most visits in the cloud's own history.
    let others: Vec<(PmPlaceId, u32)> = pms
        .places()
        .iter()
        .filter(|p| p.id != home)
        .map(|p| (p.id, p.visit_count))
        .collect();
    let mut cloud_visits = |place: PmPlaceId| -> Result<usize, Box<dyn std::error::Error>> {
        let resp = pms.cloud_client_mut().call(
            "/api/v1/analytics/frequency",
            PlaceOnlyBody {
                place: DiscoveredPlaceId(place.0),
            },
            end,
        )?;
        match resp.body {
            Payload::Frequency { visit_count, .. } => Ok(visit_count),
            _ => Err(format!("unexpected frequency reply: {}", resp.json()).into()),
        }
    };
    let mut work = None;
    for &(id, _) in &others {
        let visits = cloud_visits(id)?;
        if work.is_none_or(|(_, best)| visits > best) {
            work = Some((id, visits));
        }
    }
    let (work, _) = work.expect("multiple places");
    // The phone's own pick, by online-confirmed visits, may not have
    // reached the cloud yet.
    if let Some(&(phone_pick, phone_visits)) = others.iter().max_by_key(|(_, n)| *n) {
        if phone_pick != work && cloud_visits(phone_pick)? == 0 {
            println!(
                "   (place {} has {phone_visits} online visits on the phone, none in the \
                 cloud's history yet: their days' profiles have not shipped)",
                phone_pick.0
            );
        }
    }

    // Query 2: when is the next visit to that place?
    match pms.cloud_client_mut().call(
        "/api/v1/analytics/next_visit",
        NextVisitBody {
            place: DiscoveredPlaceId(work.0),
            now: end,
        },
        end,
    ) {
        Ok(Response {
            body: Payload::VisitAt { time },
            ..
        }) => println!("2. next predicted visit to place {}: {time}", work.0),
        Ok(resp) => return Err(format!("unexpected next-visit reply: {}", resp.json()).into()),
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
    if let Payload::Frequency {
        visits_per_week,
        visit_count,
    } = resp.body
    {
        println!(
            "3. visit frequency of place {}: {visits_per_week:.1} visits/week ({visit_count} total)",
            work.0
        );
    }

    // Bonus: the Markov "where next" distribution from home.
    let resp = pms.cloud_client_mut().call(
        "/api/v1/analytics/next_place",
        PlaceOnlyBody {
            place: DiscoveredPlaceId(home.0),
        },
        end,
    )?;
    if let Payload::Predictions { predictions } = resp.body {
        let next: Vec<String> = predictions
            .iter()
            .map(|(place, p)| format!("place {} ({:.0} %)", place.0, 100.0 * p))
            .collect();
        println!(
            "   after home, the user usually goes to: {}",
            next.join(", ")
        );
    }
    Ok(())
}
